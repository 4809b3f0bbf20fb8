"""End-to-end tests for the command-line pipeline."""

import argparse
import dataclasses
import inspect
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepgcn.cli import build_parser, main
from sepgcn.config import PathsConfig
from sepgcn.data import load_snapshot
from sepgcn.geo import EARTH_RADIUS_KM
from sepgcn.graph import interaction_matrix
from sepgcn.model import load_checkpoint, save_checkpoint
from sepgcn.sep_graph import EdgeIndex, build_sep_matrix, load_sep_matrix

SETTINGS = [
    "--seed", "3",
    "--set", "split.min_interactions=2",
    "--set", "pruning.max_neighbors=16",
    "--set", "model.dim=16",
    "--set", "train.epochs_max=8",
    "--set", "train.eval_every=4",
]


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out if capsys is not None else None
    return code, out


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full artifact chain shared by the read-only tests."""
    d = tmp_path_factory.mktemp("chain")
    assert main(["synth", "--out", str(d / "raw.tsv"), "--users", "60",
                 "--items", "120", "--checkins", "2500", "--seed", "3"]) == 0
    assert main(["prepare", "--raw", str(d / "raw.tsv"), "--out", str(d / "snap.txt"),
                 *SETTINGS]) == 0
    assert main(["build-sep", "--snapshot", str(d / "snap.txt"),
                 "--out", str(d / "pairs.sep"), *SETTINGS]) == 0
    assert main(["train", "--snapshot", str(d / "snap.txt"), "--sep", str(d / "pairs.sep"),
                 "--out", str(d / "ck.bin"), "--log", str(d / "train.log"), *SETTINGS]) == 0
    assert main(["eval", "--snapshot", str(d / "snap.txt"), "--sep", str(d / "pairs.sep"),
                 "--checkpoint", str(d / "ck.bin"), "--out", str(d / "rep"), *SETTINGS]) == 0
    return d


@pytest.fixture(scope="module")
def other_snapshot(tmp_path_factory):
    """A snapshot of another city, with the chain's settings."""
    d = tmp_path_factory.mktemp("other")
    assert main(["synth", "--out", str(d / "raw.tsv"), "--users", "30",
                 "--items", "50", "--checkins", "900", "--seed", "9"]) == 0
    assert main(["prepare", "--raw", str(d / "raw.tsv"), "--out", str(d / "snap.txt"),
                 *[str(a) for a in SETTINGS]]) == 0
    return d / "snap.txt"


class TestPrepare:
    def test_snapshot_and_summary(self, chain, tmp_path, capsys):
        code, out = run(
            ["prepare", "--raw", chain / "raw.tsv", "--out", tmp_path / "snap.txt", *SETTINGS],
            capsys,
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header.split("\t") == ["users", "items", "checkins", "interactions", "density_pct"]
        assert row.split("\t")[0] == "60"
        assert (tmp_path / "snap.txt").exists()

    def test_rerun_is_byte_identical(self, chain, tmp_path):
        args = ["prepare", "--raw", chain / "raw.tsv", *SETTINGS]
        assert main([str(a) for a in args + ["--out", tmp_path / "a.txt"]]) == 0
        assert main([str(a) for a in args + ["--out", tmp_path / "b.txt"]]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])  # whole-file and line reader
    def test_byte_order_mark_changes_no_byte(self, chain, tmp_path, newline):
        text = (chain / "raw.tsv").read_text(encoding="utf-8").replace("\n", newline)
        (tmp_path / "plain.tsv").write_bytes(text.encode())
        (tmp_path / "marked.tsv").write_bytes(("\ufeff" + text).encode())
        for name in ("plain", "marked"):
            assert main(["prepare", "--raw", str(tmp_path / f"{name}.tsv"),
                         "--out", str(tmp_path / f"{name}.txt"), *SETTINGS]) == 0
        assert (tmp_path / "marked.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()
        assert (tmp_path / "plain.txt").read_bytes() == (chain / "snap.txt").read_bytes()

    def test_missing_raw_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["prepare", "--raw", str(missing), "--out", str(tmp_path / "s.txt")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_reject_warning_names_the_first_rejected_line(self, chain, tmp_path, caplog):
        lines = (chain / "raw.tsv").read_text().splitlines(keepends=True)
        user, item, when, *coords = lines[6].split("\t")
        lines[6] = "\t".join([user, item, "2024-02-32" + when[10:], *coords])
        (tmp_path / "raw.tsv").write_text("".join(lines))
        with caplog.at_level(logging.WARNING, logger="sepgcn.cli"):
            code = main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                         "--out", str(tmp_path / "snap.txt"), *SETTINGS])
        assert code == 0
        assert "rejected 1 malformed line(s); first: line 7: unparseable timestamp" in caplog.text

    def test_missing_out_path_exits_3(self, chain, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "paths.snapshot" in err and "--out" in err

    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code = main(["prepare", "--config", str(tmp_path / "none.cfg"),
                     "--raw", "x", "--out", "y"])
        assert code == 3
        assert "config file not found" in capsys.readouterr().err

    # the same threshold keeps data on a larger log, so the log is what falls short
    @pytest.mark.parametrize(
        "setting, reason",
        [("split.kcore=500", "k-core eliminated all data at k=500"),
         ("split.min_interactions=500", "no records left after filtering")],
    )
    def test_threshold_that_leaves_no_data_exits_2(self, chain, tmp_path, capsys, setting, reason):
        argv = ["prepare", "--raw", chain / "raw.tsv", "--out", tmp_path / "snap.txt", "--set", setting]
        assert TestBadInputFiles.assert_exits(argv, 2, capsys) == f"error: {reason}"
        assert not (tmp_path / "snap.txt").exists()


class TestBuildSep:
    def test_meta_carries_run_identity(self, chain):
        sep = load_sep_matrix(chain / "pairs.sep")
        assert sep.meta["seed"] == 3
        assert sep.meta["variant"] == "sepgcn"
        assert len(sep.meta["config_hash"]) == 16

    def test_temporal_only_cutoff_is_half_circumference(self, chain, tmp_path, capsys):
        code, out = run(
            ["build-sep", "--snapshot", chain / "snap.txt", "--out", tmp_path / "t.sep",
             "--variant", "sep_temporal_only", *SETTINGS],
            capsys,
        )
        assert code == 0
        cutoff = float(next(l for l in out.splitlines() if l.startswith("cutoff_km")).split("\t")[1])
        assert cutoff == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-6)

    def test_spatial_only_drops_slot_constraint(self, chain, tmp_path):
        assert main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                     "--out", str(tmp_path / "s.sep"), "--variant", "sep_spatial_only",
                     *[str(a) for a in SETTINGS]]) == 0
        spatial = load_sep_matrix(tmp_path / "s.sep")
        standard = load_sep_matrix(chain / "pairs.sep")
        assert len(spatial.values) >= len(standard.values)

    def test_spatial_only_builds_within_a_small_pair_budget(self, tmp_path):
        """Every edge shares slot 0 here, and the cutoff covers the city: 5.8 M
        linked pairs, of which the builder lists only each edge's nearest."""
        assert main(["synth", "--out", str(tmp_path / "raw.tsv"), "--users", "200",
                     "--items", "400", "--checkins", "6000", "--seed", "0"]) == 0
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"), "--seed", "0"]) == 0
        assert main(["build-sep", "--snapshot", str(tmp_path / "snap.txt"),
                     "--out", str(tmp_path / "s.sep"), "--variant", "sep_spatial_only",
                     "--seed", "0", "--set", "pruning.max_neighbors=16",
                     "--set", "pruning.pair_budget=100000"]) == 0

    @pytest.mark.parametrize(
        "setting",
        [
            "similarity.sample_budget=-1",
            "similarity.sample_budget=0",
            "similarity.median_km=0",
            "similarity.median_km=-1",
            "similarity.median_km=nan",
            "similarity.median_km=inf",
        ],
    )
    def test_bad_similarity_setting_exits_3(self, chain, tmp_path, capsys, setting):
        code = main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                     "--out", str(tmp_path / "p.sep"), *[str(a) for a in SETTINGS],
                     "--set", setting])
        assert code == 3
        assert setting.split(".")[1].split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "p.sep").exists()

    def test_max_neighbors_beyond_the_edge_count_means_no_cap(self, chain, tmp_path):
        capped = load_sep_matrix(chain / "pairs.sep")
        built = {}
        for cap in ("99999999999999999999", str(capped.n_edges)):
            assert main(["build-sep", "--snapshot", str(chain / "snap.txt"),
                         "--out", str(tmp_path / f"{cap}.sep"), *[str(a) for a in SETTINGS],
                         "--set", f"pruning.max_neighbors={cap}"]) == 0
            built[cap] = load_sep_matrix(tmp_path / f"{cap}.sep")
        huge, every = built.values()
        for f in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(huge, f), getattr(every, f))
        assert huge.nnz > capped.nnz  # the cap of 16 binds on this city

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        code = main(["build-sep", "--snapshot", str(tmp_path / "gone.txt"),
                     "--out", str(tmp_path / "p.sep")])
        assert code == 2
        assert "gone.txt" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_echo(self, chain):
        e0, meta = load_checkpoint(chain / "ck.bin")
        ds = load_snapshot(chain / "snap.txt")
        assert e0.shape == (ds.n_users + ds.n_items, 16)
        assert meta["variant"] == "sepgcn"
        assert meta["seed"] == 3
        assert meta["layers"] == 3

    def test_log_has_five_columns(self, chain):
        lines = (chain / "train.log").read_text().splitlines()
        assert lines[0].split("\t") == ["epoch", "loss", "recall@20", "ndcg@20", "wallclock_s"]
        assert all(len(l.split("\t")) == 5 for l in lines[1:])
        assert len(lines) == 3  # epochs 4 and 8

    def test_lightgcn_ignores_matrix_without_reading(self, chain, tmp_path, capsys):
        phantom = tmp_path / "never-written.sep"
        code, out = run(
            ["train", "--snapshot", chain / "snap.txt", "--sep", phantom,
             "--out", tmp_path / "lg.bin", "--variant", "lightgcn", *SETTINGS],
            capsys,
        )
        assert code == 0
        assert "left unread" in out
        assert not phantom.exists()

    def test_requires_matrix_path_for_sep_variant(self, chain, capsys):
        code = main(["train", "--snapshot", str(chain / "snap.txt"),
                     "--out", "x.bin", *[str(a) for a in SETTINGS]])
        assert code == 3
        err = capsys.readouterr().err
        assert "paths.sep" in err and "--sep" in err

    def test_missing_out_path_exits_3_before_training(self, chain, tmp_path, capsys):
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--log", str(tmp_path / "train.log"), *[str(a) for a in SETTINGS]])
        assert code == 3
        err = capsys.readouterr().err
        assert "paths.checkpoint" in err and "--out" in err
        assert not (tmp_path / "train.log").exists()

    def test_divergent_run_exits_4_but_keeps_checkpoint(self, chain, tmp_path, capsys):
        code = main(["train", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--out", str(tmp_path / "div.bin"),
                     *[str(a) for a in SETTINGS],
                     "--set", "train.optimizer=sgd", "--set", "train.lr=1e30"])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        e0, _ = load_checkpoint(tmp_path / "div.bin")
        assert np.all(np.isfinite(e0))

    def test_divergence_in_the_evaluation_keeps_checkpoint_and_log(self, chain, tmp_path, capsys):
        """One Adam step at lr=1e308 leaves a finite table too large for the
        evaluation's forward pass; the table before that step is kept."""
        ck, log = tmp_path / "ck.bin", tmp_path / "train.log"
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(ck), "--log", str(log), *[str(a) for a in SETTINGS],
                     "--set", "train.lr=1e308", "--set", "train.eval_every=1",
                     "--set", "train.batch_size=1000000"])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert np.all(np.isfinite(load_checkpoint(ck)[0]))
        assert log.read_text() == "epoch\tloss\trecall@20\tndcg@20\twallclock_s\n"
        assert main(["eval", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--checkpoint", str(ck), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]]) == 0

    def test_overflowing_optimizer_step_is_named(self, chain, tmp_path, capsys, recwarn):
        """At lr=1e308 the weight-decay term alone carries the first SGD step
        past the float limit; the table before that step is kept."""
        ck = tmp_path / "ck.bin"
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(ck), *[str(a) for a in SETTINGS],
                     "--set", "train.optimizer=sgd", "--set", "train.lr=1e308",
                     "--set", "train.l2=1e10", "--set", "train.eval_every=1"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "error: training diverged (non-finite values after the optimizer step)"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert np.all(np.isfinite(load_checkpoint(ck)[0]))

    @pytest.mark.parametrize(
        "setting",
        ["train.lr=inf", "train.l2=nan", "train.l2=inf", "model.init_std=nan", "model.init_std=inf"],
    )
    def test_non_finite_setting_exits_3(self, chain, tmp_path, capsys, setting):
        code = main(["train", "--snapshot", str(chain / "snap.txt"), "--sep", str(chain / "pairs.sep"),
                     "--out", str(tmp_path / "ck.bin"), *[str(a) for a in SETTINGS],
                     "--set", setting])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ck.bin").exists()

    def test_matrix_of_another_snapshot_exits_3(self, chain, other_snapshot, tmp_path, capsys):
        """The matrix must cover the snapshot's train edges; the stage checks
        that before it builds the model."""
        n_sep = load_sep_matrix(chain / "pairs.sep").n_edges
        n_snap = EdgeIndex.from_dataset(load_snapshot(other_snapshot)).n_edges
        assert n_sep != n_snap
        argv = ["train", "--snapshot", other_snapshot, "--sep", chain / "pairs.sep",
                "--out", tmp_path / "ck.bin", *SETTINGS]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error == (f"error: edge-pair matrix covers {n_sep} edges but the snapshot "
                         f"yields {n_snap}; rebuild it from this snapshot")
        assert not (tmp_path / "ck.bin").exists()


class TestMatrixOfAnotherRun:
    """A matrix file built with other pair settings than the run's ends train and eval."""

    @pytest.mark.parametrize(
        "built_with, key",
        [
            (["--variant", "sep_temporal_only", "--set", "pruning.max_neighbors=8"], "variant"),
            (["--set", "pruning.max_neighbors=8"], "max_neighbors"),
            (["--set", "pruning.sigma_floor=0.05"], "sigma_floor"),
            (["--set", "similarity.alpha=0.6"], "alpha_sim"),
            (["--seed", "4", "--set", "split.seed=3"], "seed"),
            (["--set", "similarity.median_mode=per_user"], "median_mode"),
            (["--set", "similarity.sample_budget=500"], "sample_budget"),
            (["--set", "similarity.seed=9"], "median_seed"),
        ],
    )
    def test_exits_3_with_one_error_line(self, chain, tmp_path, capsys, built_with, key):
        other = tmp_path / "other.sep"
        assert main([str(a) for a in ["build-sep", "--snapshot", chain / "snap.txt",
                                      "--out", other, *SETTINGS, *built_with]]) == 0
        common = ["--snapshot", chain / "snap.txt", "--sep", other, *SETTINGS]
        for argv in (
            ["train", *common, "--out", tmp_path / "new.bin"],
            ["eval", *common, "--checkpoint", chain / "ck.bin", "--out", tmp_path / "r"],
        ):
            error = TestBadInputFiles.assert_exits(argv, 3, capsys)
            assert f"edge-pair matrix was built with {key}=" in error
        assert not (tmp_path / "new.bin").exists()
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("built, configured", [(2.0, None), (None, 5.0), (2.0, 5.0)])
    def test_another_set_median_exits_3(self, chain, tmp_path, capsys, built, configured):
        """The median sets the cutoff and every weight: a file built with a set
        similarity.median_km is read only by runs that set the same value."""
        def median(value):
            return [] if value is None else ["--set", f"similarity.median_km={value}"]

        other = tmp_path / "other.sep"
        assert main([str(a) for a in ["build-sep", "--snapshot", chain / "snap.txt",
                                      "--out", other, *SETTINGS, *median(built)]]) == 0
        common = ["--snapshot", chain / "snap.txt", "--sep", other, *SETTINGS, *median(configured)]
        for argv in (
            ["train", *common, "--out", tmp_path / "new.bin"],
            ["eval", *common, "--checkpoint", chain / "ck.bin", "--out", tmp_path / "r"],
        ):
            error = TestBadInputFiles.assert_exits(argv, 3, capsys)
            assert error == (f"error: edge-pair matrix was built with set_median_km={built!r} but the "
                             f"run is configured for set_median_km={configured!r}; rebuild it with build-sep")
        assert not (tmp_path / "new.bin").exists()
        assert not (tmp_path / "r.tsv").exists()

    def test_median_settings_of_a_set_median_are_not_compared(self, chain, tmp_path):
        """similarity.median_km set: no median is measured, so the median's
        settings shape nothing and neither build-sep nor train records them."""
        fixed = tmp_path / "fixed.sep"
        common = ["--snapshot", chain / "snap.txt", *SETTINGS, "--set", "similarity.median_km=2.0"]
        assert main([str(a) for a in ["build-sep", *common, "--out", fixed]]) == 0
        meta = load_sep_matrix(fixed).meta
        assert not {"median_mode", "sample_budget", "median_seed"} & meta.keys()
        assert meta["set_median_km"] == 2.0
        assert main([str(a) for a in ["train", *common, "--sep", fixed, "--out", tmp_path / "ck.bin",
                                      "--set", "similarity.median_mode=per_user"]]) == 0


class TestSnapshotOfAnotherSplit:
    """A snapshot made with other split settings than the run's ends every stage that reads it."""

    @pytest.mark.parametrize(
        "setting, made",
        [("split.train_ratio=0.5", "0.7"), ("split.seed=9", "3"),
         ("split.min_interactions=3", "2"), ("split.kcore=3", "0")],
    )
    def test_exits_3_with_one_error_line(self, chain, tmp_path, capsys, setting, made):
        key, configured = setting.split("=")
        common = ["--snapshot", chain / "snap.txt", *SETTINGS, "--set", setting]
        for argv in (
            ["build-sep", *common, "--out", tmp_path / "p.sep"],
            ["train", *common, "--sep", chain / "pairs.sep", "--out", tmp_path / "ck.bin"],
            ["eval", *common, "--sep", chain / "pairs.sep", "--checkpoint", chain / "ck.bin",
             "--out", tmp_path / "r"],
            ["sweep", *common, "--axis", "layers", "--values", "1", "--out", tmp_path / "sw"],
        ):
            error = TestBadInputFiles.assert_exits(argv, 3, capsys)
            assert error == (f"error: snapshot was made with {key}={made} but the run "
                             f"is configured for {key}={configured}; rerun prepare")
        assert list(tmp_path.iterdir()) == []

    def test_training_seeds_may_vary_on_one_split(self, chain, tmp_path):
        assert main([str(a) for a in ["train", "--snapshot", chain / "snap.txt",
                                      "--sep", chain / "pairs.sep", "--out", tmp_path / "ck.bin",
                                      *SETTINGS, "--set", "train.epochs_max=1",
                                      "--set", "train.seed=9", "--set", "model.seed=9"]]) == 0


class TestCheckpointOfAnotherRun:
    """A checkpoint trained with other model settings than the run's ends eval."""

    @pytest.mark.parametrize(
        "trained_with, key",
        [
            (["--variant", "lightgcn"], "variant"),
            (["--set", "model.layers=2"], "layers"),
            (["--set", "model.alpha=0.3"], "alpha_user"),
            (["--set", "model.beta=0.3"], "beta_item"),
            (["--set", "model.sep_update=once"], "sep_update"),
        ],
    )
    def test_eval_exits_3_with_one_error_line(self, chain, tmp_path, capsys, trained_with, key):
        other = tmp_path / "other.bin"
        common = ["--snapshot", chain / "snap.txt", "--sep", chain / "pairs.sep", *SETTINGS]
        assert main([str(a) for a in ["train", *common, "--out", other,
                                      "--set", "train.epochs_max=1", *trained_with]]) == 0
        capsys.readouterr()
        argv = ["eval", *common, "--checkpoint", other, "--out", tmp_path / "r"]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert f"checkpoint was trained with {key}=" in error
        assert not (tmp_path / "r.tsv").exists()


class TestRepeatedPair:
    """A snapshot that lists one (user, item) pair twice ends every stage that reads it."""

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_exits_2_with_one_error_line(self, chain, tmp_path, capsys, split):
        lines = (chain / "snap.txt").read_text().splitlines()
        train = next(line for line in lines if line.startswith("E\t") and "\ttrain\t" in line)
        lines[-1] = "\t".join(["E", *train.split("\t")[1:3], split, lines[-1].split("\t")[4]])
        snap = tmp_path / "snap.txt"
        snap.write_text("\n".join(lines) + "\n")
        common = ["--snapshot", snap, *SETTINGS]
        for argv in (
            ["build-sep", *common, "--out", tmp_path / "p.sep"],
            ["train", *common, "--variant", "lightgcn", "--out", tmp_path / "lg.bin"],
            ["eval", *common, "--sep", chain / "pairs.sep", "--checkpoint", chain / "ck.bin",
             "--out", tmp_path / "r"],
        ):
            error = TestBadInputFiles.assert_exits(argv, 2, capsys)
            assert error.startswith(f"error: {snap}:{len(lines)}: bad snapshot row: interaction (")
            assert error.endswith(") is listed twice")
        assert sorted(tmp_path.iterdir()) == [snap]


class TestEval:
    def test_reeval_is_byte_identical(self, chain, tmp_path):
        assert main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "rep"), *[str(a) for a in SETTINGS]]) == 0
        assert (tmp_path / "rep.tsv").read_bytes() == (chain / "rep.tsv").read_bytes()
        assert (tmp_path / "rep.kv").read_bytes() == (chain / "rep.kv").read_bytes()

    def test_report_recall_matches_training_best(self, chain):
        log_best = max(
            float(l.split("\t")[2]) for l in (chain / "train.log").read_text().splitlines()[1:]
        )
        kv = dict(
            l.split(" = ") for l in (chain / "rep.kv").read_text().splitlines() if " = " in l
        )
        assert float(kv["k20.recall"]) == log_best

    def test_dim_mismatch_exits_3(self, chain, tmp_path, capsys):
        code = main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "r"), "--seed", "3",
                     "--set", "split.min_interactions=2", "--set", "model.dim=8"])
        assert code == 3
        assert "dim" in capsys.readouterr().err

    def test_wrong_snapshot_exits_3(self, chain, other_snapshot, tmp_path, capsys):
        code = main(["eval", "--snapshot", str(other_snapshot),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(chain / "ck.bin"),
                     "--out", str(tmp_path / "r"), *[str(a) for a in SETTINGS]])
        assert code == 3
        assert "nodes" in capsys.readouterr().err

    def test_overflowing_layer_mean_exits_4(self, chain, tmp_path, capsys, recwarn):
        """Rows along A's eigenvector sqrt(degree), scaled near the float limit:
        every layer repeats them, so each stays finite and only their mean overflows."""
        train = interaction_matrix(load_snapshot(chain / "snap.txt"), "train")
        deg = np.concatenate([train.sum(axis=1).A1, train.sum(axis=0).A1])
        e0 = np.repeat((np.sqrt(deg) / np.sqrt(deg).max() * 1e308)[:, None], 16, axis=1)
        save_checkpoint(e0, {}, tmp_path / "big.bin")
        code = main(["eval", "--snapshot", str(chain / "snap.txt"), "--variant", "lightgcn",
                     "--checkpoint", str(tmp_path / "big.bin"), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values after the layer mean"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "rep.tsv").exists()

    def test_overflowing_ranking_scores_exit_4(self, chain, tmp_path, capsys, recwarn):
        """Rows of normal(0, 1) times 1e200 pass the forward pass, but their dot
        products overflow; ranking them would order infinities by item id."""
        n_nodes = load_checkpoint(chain / "ck.bin")[0].shape[0]
        e0 = np.random.default_rng(0).normal(size=(n_nodes, 16)) * 1e200
        save_checkpoint(e0, {}, tmp_path / "big.bin")
        code = main(["eval", "--snapshot", str(chain / "snap.txt"), "--variant", "lightgcn",
                     "--checkpoint", str(tmp_path / "big.bin"), "--out", str(tmp_path / "rep"),
                     *[str(a) for a in SETTINGS]])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite values in the ranking scores"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "rep.tsv").exists()

    def test_missing_checkpoint_exits_2(self, chain, tmp_path, capsys):
        gone = tmp_path / "gone.bin"
        code = main(["eval", "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--checkpoint", str(gone),
                     "--out", str(tmp_path / "r"), *[str(a) for a in SETTINGS]])
        assert code == 2
        assert str(gone) in capsys.readouterr().err

    def test_other_cutoffs_than_training_warn_nothing(self, chain, tmp_path):
        """The checkpoint is one table for any cutoff, so ks other than the
        ones of training end in a report and an empty stderr."""
        argv = [str(a) for a in _stage_argv(chain, "eval", tmp_path / "rep")] + ["--set", "ks=5,120"]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sepgcn.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "k120.recall" in (tmp_path / "rep.kv").read_text()

    def test_user_without_test_items_counts_as_excluded(self, tmp_path, capsys):
        """Users a and b share six venues; x's five venues are x's alone, so the
        split promotes all of x's test edges to train and x has nothing to rank."""
        lines = []
        for user, venues in (("a", range(6)), ("b", range(6)), ("x", range(6, 11))):
            lines += [f"{user}\tv{v}\t2024-01-01T{v + 8:02d}:00:00\t40.0\t-74.0" for v in venues]
        (tmp_path / "raw.tsv").write_text("\n".join(lines) + "\n")
        common = ["--seed", "0", "--variant", "lightgcn", "--set", "model.dim=4",
                  "--set", "train.epochs_max=2", "--set", "train.eval_every=1"]
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"), *common]) == 0
        splits = {}
        edges = load_snapshot(tmp_path / "snap.txt").interactions
        for u, test in zip(edges.users.tolist(), edges.is_test.tolist()):
            splits.setdefault(u, set()).add("test" if test else "train")
        assert splits == {0: {"train", "test"}, 1: {"train", "test"}, 2: {"train"}}
        assert main(["train", "--snapshot", str(tmp_path / "snap.txt"),
                     "--out", str(tmp_path / "ck.bin"), *common]) == 0
        capsys.readouterr()
        code, out = run(["eval", "--snapshot", tmp_path / "snap.txt",
                         "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "rep", *common],
                        capsys)
        assert code == 0
        assert "evaluated 2 users (1 excluded)" in out
        assert "n_excluded = 1" in (tmp_path / "rep.kv").read_text()


class TestSweep:
    def test_layers_axis_row_count(self, chain, tmp_path, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers",
             "--values", "1,2", "--out", tmp_path / "sw", *SETTINGS],
            capsys,
        )
        assert code == 0
        table = (tmp_path / "sw.sweep.tsv").read_text().splitlines()
        assert table[0].startswith("# axis=layers")
        assert table[1] == "value\tk\tprecision\trecall\tndcg\taccuracy"
        assert len(table) == 2 + 2 * 2  # two values x two cutoffs
        assert {row.split("\t")[0] for row in table[2:]} == {"1", "2"}

    def test_single_value_sweep_matches_eval(self, chain, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers",
             "--values", "3", *SETTINGS],
            capsys,
        )
        assert code == 0
        kv = dict(
            l.split(" = ") for l in (chain / "rep.kv").read_text().splitlines() if " = " in l
        )
        row20 = next(
            l.split("\t") for l in out.splitlines() if l.startswith("3\t20")
        )
        assert row20[2] == kv["k20.precision"]
        assert row20[3] == kv["k20.recall"]
        assert row20[4] == kv["k20.ndcg"]
        assert row20[5] == kv["k20.accuracy"]

    def test_kcore_axis_changes_dataset(self, chain, capsys):
        code, out = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", "kcore",
             "--values", "0,10", "--variant", "lightgcn", *SETTINGS,
             "--set", "train.epochs_max=2", "--set", "train.eval_every=0"],
            capsys,
        )
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines() if l and l[0].isdigit()]
        row0 = next(r for r in rows if r[0] == "0" and r[1] == "20")
        row10 = next(r for r in rows if r[0] == "10" and r[1] == "20")
        assert row0[2:] != row10[2:]

    @pytest.mark.parametrize(
        "axis, values, variant, builds",
        [("alpha", "0.3,0.7", "sepgcn", 1), ("kcore", "0,3", "sepgcn", 2)],
    )
    def test_pair_graph_built_once_per_dataset(
        self, chain, monkeypatch, capsys, axis, values, variant, builds
    ):
        from sepgcn import sep_graph

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_sep_matrix(*args, **kwargs)

        monkeypatch.setattr(sep_graph, "build_sep_matrix", counting)
        code, _ = run(
            ["sweep", "--snapshot", chain / "snap.txt", "--axis", axis, "--values", values,
             "--variant", variant, *SETTINGS,
             "--set", "train.epochs_max=1", "--set", "train.eval_every=0"],
            capsys,
        )
        assert code == 0
        assert len(calls) == builds

    def test_kcore_table_is_pinned(self, chain, tmp_path):
        """The kcore sweep rebuilds each dataset from the snapshot's columns; its
        table on this city is the one the record-based rebuild wrote."""
        assert main(["sweep", "--snapshot", str(chain / "snap.txt"), "--axis", "kcore",
                     "--values", "0,3", "--out", str(tmp_path / "kc"), *SETTINGS]) == 0
        rows = [
            "5\t0.09000000000000001\t0.06503306878306878\t0.09700618386995838\t0.35",
            "20\t0.0875\t0.24064153439153435\t0.17046949631307443\t0.8833333333333333",
        ]
        assert (tmp_path / "kc.sweep.tsv").read_text() == "".join(
            [
                "# axis=kcore\tconfig_hash=8114be9ba954ca58\tseed=3\tvariant=sepgcn\tn_values=2\n",
                "value\tk\tprecision\trecall\tndcg\taccuracy\n",
                *(f"{value}\t{row}\n" for value in ("0", "3") for row in rows),
            ]
        )

    def test_diverged_value_exits_4_without_a_table(self, chain, tmp_path, capsys):
        argv = ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers", "--values", "1",
                "--out", tmp_path / "sw", *SETTINGS, "--set", "train.optimizer=sgd",
                "--set", "train.lr=1e308", "--set", "train.l2=1e10"]
        error = TestBadInputFiles.assert_exits(argv, 4, capsys)
        assert error == ("error: training diverged at layers=1 (non-finite values after "
                         "the optimizer step); no table written")
        assert list(tmp_path.iterdir()) == []

    def test_empty_values_exit_3(self, chain, capsys):
        code = main(["sweep", "--snapshot", str(chain / "snap.txt"), "--axis", "layers",
                     "--values", " , ", *[str(a) for a in SETTINGS]])
        assert code == 3

    def test_bad_value_is_named_under_its_key(self, chain, capsys):
        argv = ["sweep", "--snapshot", chain / "snap.txt", "--axis", "layers", "--values", "x",
                *SETTINGS]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error.startswith("error: bad value for 'model.layers': ")


class TestConfigPrecedence:
    def test_flags_beat_set_beat_file(self, chain, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.dim = 8\nseed = 1\nsplit.min_interactions = 2\n")
        assert main(["train", "--config", str(cfg), "--snapshot", str(chain / "snap.txt"),
                     "--sep", str(chain / "pairs.sep"), "--out", str(tmp_path / "ck.bin"),
                     "--set", "model.dim=16", "--set", "seed=2", "--seed", "3",
                     "--set", "pruning.max_neighbors=16",
                     "--set", "train.epochs_max=2", "--set", "train.eval_every=0"]) == 0
        _, meta = load_checkpoint(tmp_path / "ck.bin")
        assert meta["dim"] == 16  # --set beats the file
        assert meta["seed"] == 3  # the flag beats --set

    def test_unknown_key_exits_3(self, chain, tmp_path, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", "bogus.key=1"])
        assert code == 3
        assert "bogus.key" in capsys.readouterr().err
        # model.gamma was once an alias for model.alpha and model.beta
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.gamma = 0.3\n")
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--config", str(cfg)])
        assert code == 3
        assert "unknown config key 'model.gamma'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threads=2", "deterministic=true"])
    def test_thread_keys_are_unknown(self, chain, tmp_path, capsys, key):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", key])
        assert code == 3
        assert f"unknown config key {key.split('=')[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--deterministic"]])
    def test_thread_flags_rejected_by_parser(self, chain, tmp_path, flag):
        with pytest.raises(SystemExit):
            main(["prepare", "--raw", str(chain / "raw.tsv"),
                  "--out", str(tmp_path / "s.txt"), *flag])

    def test_bad_split_ratio_exits_3(self, chain, tmp_path, capsys):
        code = main(["prepare", "--raw", str(chain / "raw.tsv"),
                     "--out", str(tmp_path / "s.txt"), "--set", "split.train_ratio=1.5"])
        assert code == 3
        assert "train_ratio" in capsys.readouterr().err

    def test_bad_variant_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "nonsense"])


def _stages() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestPathSettings:
    """Each path flag is the paths.* setting of its name: the flag beats
    --set, which beats the config file."""

    PATH_FLAGS = {"--raw", "--snapshot", "--sep", "--checkpoint", "--out", "--log"}

    def test_every_path_flag_stores_a_paths_field(self):
        fields = {f.name for f in dataclasses.fields(PathsConfig)}
        for name, parser in _stages().items():
            dests = {a.dest for a in parser._actions if self.PATH_FLAGS & set(a.option_strings)}
            assert dests <= ({"out"} if name == "synth" else fields), name
            if name != "synth":
                assert "args.out" not in inspect.getsource(parser.get_default("func")), name

    @pytest.mark.parametrize(
        "stage, flag, key",
        [("prepare", "--out", "paths.snapshot"), ("build-sep", "--out", "paths.sep"),
         ("train", "--out", "paths.checkpoint"), ("train", "--log", "paths.train_log"),
         ("eval", "--out", "paths.report_prefix"), ("sweep", "--out", "paths.report_prefix")],
    )
    @pytest.mark.parametrize("winner", ["flag", "set"])
    def test_output_lands_at_the_strongest_path(self, chain, tmp_path, stage, flag, key, winner):
        dirs = {name: tmp_path / name for name in ("flag", "set", "file")}
        for d in dirs.values():
            d.mkdir()
        argv = [str(a) for a in _stage_argv(chain, stage, tmp_path / "ck.bin")]
        if flag == "--out":
            del argv[argv.index("--out") : argv.index("--out") + 2]
        (tmp_path / "run.cfg").write_text(f"{key} = {dirs['file'] / 'out'}\n")
        argv += ["--config", str(tmp_path / "run.cfg"), "--set", f"{key}={dirs['set'] / 'out'}"]
        if winner == "flag":
            argv += [flag, str(dirs["flag"] / "out")]
        assert main(argv) == 0
        assert [name for name, d in dirs.items() if any(d.iterdir())] == [winner]

    @pytest.mark.parametrize(
        "stage, key",
        [("build-sep", "paths.sep"), ("train", "paths.checkpoint"), ("eval", "paths.report_prefix")],
    )
    def test_missing_output_path_wins_over_a_missing_snapshot(
        self, chain, tmp_path, capsys, stage, key
    ):
        checkpoint = ["--checkpoint", chain / "ck.bin"] if stage == "eval" else []
        argv = [stage, "--snapshot", tmp_path / "nope.txt", *checkpoint, *SETTINGS]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error.startswith(f"error: no path configured for {key}; ")

    @pytest.mark.parametrize("stage", ["synth"])
    @pytest.mark.parametrize(
        "flag",
        [["--config", "/nonexistent.cfg"], ["--set", "bogus.key=1"], ["--variant", "lightgcn"]],
        ids=["config", "set", "variant"],
    )
    def test_stage_without_run_settings_refuses_them(self, chain, tmp_path, capsys, stage, flag):
        argv = _stage_argv(chain, stage, tmp_path / "raw.tsv")
        with pytest.raises(SystemExit) as stop:
            main([str(a) for a in [*argv, *flag]])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestNegativeSeed:
    """A negative seed is a configuration error, caught before any stage reads data."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--raw", "raw.tsv", "--out", "snap.txt", "--seed", "-1"],
            ["build-sep", "--snapshot", "snap.txt", "--out", "pairs.sep", "--seed", "-1"],
            ["train", "--snapshot", "snap.txt", "--sep", "pairs.sep", "--out", "ck.bin",
             "--set", "model.seed=-3"],
            ["eval", "--snapshot", "snap.txt", "--sep", "pairs.sep", "--checkpoint", "ck.bin",
             "--out", "rep", "--seed", "-1"],
            ["synth", "--out", "new.tsv", "--seed", "-1"],
        ],
    )
    def test_exits_3_with_one_error_line(self, chain, tmp_path, capsys, argv):
        inputs = ("raw.tsv", "snap.txt", "pairs.sep", "ck.bin")
        for f in inputs:
            shutil.copy(chain / f, tmp_path / f)
        argv = [str(tmp_path / a) if a in (*inputs, "rep", "new.tsv") else a for a in argv]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert "seed must be >= 0" in error
        assert not (tmp_path / "new.tsv").exists() and not (tmp_path / "rep.tsv").exists()


class TestBadSynthCount:
    """A synth count below 1 exits 3 naming its flag, before anything is written."""

    @pytest.mark.parametrize("flag", ["users", "items", "checkins"])
    def test_exits_3_with_one_error_line(self, tmp_path, capsys, flag):
        argv = ["synth", "--out", tmp_path / "raw.tsv", f"--{flag}", "0"]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error == f"error: {flag} must be >= 1, got 0"
        assert not (tmp_path / "raw.tsv").exists()


class TestNegativeSplitThreshold:
    """A negative k-core or minimum-interaction threshold has no meaning."""

    @pytest.mark.parametrize("setting", ["split.kcore=-1", "split.min_interactions=-3"])
    def test_prepare_exits_3_with_one_error_line(self, chain, tmp_path, capsys, setting):
        argv = ["prepare", "--raw", chain / "raw.tsv", "--out", tmp_path / "snap.txt", "--set", setting]
        error = TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert error == f"error: {setting.replace('=', ' must be >= 0, got ')}"
        assert not (tmp_path / "snap.txt").exists()


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


class TestStageImports:
    """Each stage loads only what it runs; each check starts a fresh interpreter."""

    def test_config_is_a_leaf(self):
        loaded = _modules_after("import sepgcn.config")
        assert {m for m in loaded if m.startswith("sepgcn")} == {
            "sepgcn", "sepgcn.config", "sepgcn.errors"
        }
        assert "numpy" not in loaded

    def test_synth_and_prepare_load_no_scipy(self, tmp_path):
        raw, snap = tmp_path / "raw.tsv", tmp_path / "snap.txt"
        loaded = _modules_after(
            "from sepgcn.cli import main\n"
            f"assert main(['synth', '--out', {str(raw)!r}, '--users', '30', '--items', '60',"
            " '--checkins', '600', '--seed', '2']) == 0\n"
            f"assert main(['prepare', '--raw', {str(raw)!r}, '--out', {str(snap)!r},"
            " '--set', 'split.min_interactions=2']) == 0"
        )
        assert snap.exists()
        assert "sepgcn.cli" in loaded
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
        assert "sepgcn.snapshot_columns" not in loaded  # neither stage reads a snapshot
        assert "sepgcn.checkin_columns" in loaded

    def test_synth_loads_no_raw_log_reader(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        loaded = _modules_after(
            "from sepgcn.cli import main\n"
            f"assert main(['synth', '--out', {str(raw)!r}, '--users', '30', '--items', '60',"
            " '--checkins', '600', '--seed', '2']) == 0"
        )
        assert raw.exists()
        assert "sepgcn.checkin_columns" not in loaded

    def test_eval_loads_no_scipy_special(self, chain, tmp_path):
        argv = ["eval", "--snapshot", chain / "snap.txt", "--sep", chain / "pairs.sep",
                "--checkpoint", chain / "ck.bin", "--out", tmp_path / "rep", *SETTINGS]
        loaded = _modules_after(
            f"from sepgcn.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"
        )
        assert (tmp_path / "rep.tsv").read_bytes() == (chain / "rep.tsv").read_bytes()
        assert "scipy.sparse" in loaded
        assert "scipy.special" not in loaded
        assert "sepgcn.snapshot_columns" in loaded

    @pytest.mark.parametrize("stage", ["train", "sweep"])
    def test_training_stages_load_no_scipy_special(self, chain, tmp_path, stage):
        """A sweep on an edge-update variant builds its matrix and so loads
        scipy.spatial (and with it scipy.special), as build-sep does; this
        one sweeps lightgcn."""
        common = ["--snapshot", chain / "snap.txt", *SETTINGS]
        argv = {
            "train": ["train", *common, "--sep", chain / "pairs.sep",
                      "--out", tmp_path / "ck.bin", "--log", tmp_path / "train.log"],
            "sweep": ["sweep", *common, "--variant", "lightgcn", "--axis", "layers",
                      "--values", "2", "--out", tmp_path / "sw"],
        }[stage]
        loaded = _modules_after(
            f"from sepgcn.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"
        )
        if stage == "train":
            assert (tmp_path / "ck.bin").read_bytes() == (chain / "ck.bin").read_bytes()
        else:
            assert (tmp_path / "sw.sweep.tsv").exists()
        assert "sepgcn.training" in loaded
        assert "scipy.sparse" in loaded
        assert "scipy.special" not in loaded


class TestSynth:
    def test_round_trips_through_prepare(self, tmp_path, capsys):
        code, out = run(
            ["synth", "--out", tmp_path / "raw.tsv", "--users", "20", "--items", "40",
             "--checkins", "600", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "600 check-ins" in out
        assert main(["prepare", "--raw", str(tmp_path / "raw.tsv"),
                     "--out", str(tmp_path / "snap.txt"),
                     "--set", "split.min_interactions=2"]) == 0
        ds = load_snapshot(tmp_path / "snap.txt")
        assert ds.n_checkins == 600


def _edit_sep_header(key, value):
    def edit(text):
        head, _, body = text.partition("\n")
        meta = json.loads(head.split(" ", 1)[1])
        meta[key] = value
        return f"SEPMAT1 {json.dumps(meta, sort_keys=True)}\n{body}"

    return edit


def _nan_first_entry(text):
    lines = text.splitlines(keepends=True)
    i, j, _ = lines[1].split("\t")
    lines[1] = f"{i}\t{j}\tnan\n"
    return "".join(lines)


def _checkpoint_header(header):
    def edit(blob):
        magic, _, payload = blob.split(b"\n", 2)
        return magic + b"\n" + header + b"\n" + payload

    return edit


def _snapshot_header(text):
    lines = text.splitlines(keepends=True)
    return "".join([lines[0], "{}\n", *lines[2:]])


# (file to corrupt, edit of its contents)
BAD_INPUTS = {
    "sep-malformed-line": ("pairs.sep", lambda text: text + "garbage line\n"),
    "sep-index-past-n_edges": ("pairs.sep", lambda text: text + "0\t99999999\t0.5\n"),
    "sep-nan-value": ("pairs.sep", _nan_first_entry),
    "sep-storage-full": ("pairs.sep", _edit_sep_header("storage", "full")),
    "sep-normalization-row_unit": ("pairs.sep", _edit_sep_header("normalization", "row_unit")),
    "sep-normalization-raw": ("pairs.sep", _edit_sep_header("normalization", "raw")),
    "snapshot-empty-header": ("snap.txt", _snapshot_header),
    "checkpoint-header-not-json": ("ck.bin", _checkpoint_header(b"not json")),
    "checkpoint-empty-header": ("ck.bin", _checkpoint_header(b"{}")),
    "checkpoint-zero-dim": ("ck.bin", _checkpoint_header(b'{"dim": 0, "n_nodes": 180}')),
    "checkpoint-negative-nodes": ("ck.bin", _checkpoint_header(b'{"dim": 16, "n_nodes": -1}')),
}


class TestBadInputFiles:
    """Each corrupted input file ends the stage with its exit code and one error line."""

    @pytest.mark.parametrize(
        "stage, case",
        [
            (stage, case)
            for case in sorted(BAD_INPUTS)
            for stage in ("train", "eval")
            if stage == "eval" or BAD_INPUTS[case][0] != "ck.bin"  # train reads no checkpoint
        ],
    )
    def test_exit_2_with_one_error_line(self, chain, tmp_path, capsys, stage, case):
        name, edit = BAD_INPUTS[case]
        for f in ("snap.txt", "pairs.sep", "ck.bin"):
            shutil.copy(chain / f, tmp_path / f)
        target = tmp_path / name
        if name == "ck.bin":
            target.write_bytes(edit(target.read_bytes()))
        else:
            target.write_text(edit(target.read_text()))
        common = ["--snapshot", tmp_path / "snap.txt", "--sep", tmp_path / "pairs.sep", *SETTINGS]
        if stage == "train":
            argv = ["train", *common, "--out", tmp_path / "new.bin"]
        else:
            argv = ["eval", *common, "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "r"]
        self.assert_exits(argv, 2, capsys)

    def test_sep_cut_at_a_line_boundary(self, chain, tmp_path, capsys):
        """The header counts the pairs, so half the lines are not a smaller graph."""
        text = (chain / "pairs.sep").read_text()
        cut = tmp_path / "pairs.sep"
        cut.write_text(text[: text.index("\n", len(text) // 2) + 1])
        argv = ["train", "--snapshot", chain / "snap.txt", "--sep", cut,
                "--out", tmp_path / "ck.bin", *SETTINGS]
        assert self.assert_exits(argv, 2, capsys).startswith(f"error: {cut}: matrix body holds ")

    @pytest.mark.parametrize(
        "name, code", [("raw.tsv", 2), ("run.cfg", 3), ("snap.txt", 2), ("pairs.sep", 2)]
    )
    def test_non_utf8_file(self, chain, tmp_path, capsys, name, code):
        for f in ("raw.tsv", "snap.txt", "pairs.sep", "ck.bin"):
            shutil.copy(chain / f, tmp_path / f)
        (tmp_path / "run.cfg").write_text("seed = 3\n")
        with (tmp_path / name).open("ab") as f:
            f.write(b"\xff\xfe\n")
        common = ["--config", tmp_path / "run.cfg", *SETTINGS]
        if name in ("raw.tsv", "run.cfg"):
            argv = ["prepare", "--raw", tmp_path / "raw.tsv", "--out", tmp_path / "s.txt", *common]
        else:
            argv = ["eval", "--snapshot", tmp_path / "snap.txt", "--sep", tmp_path / "pairs.sep",
                    "--checkpoint", tmp_path / "ck.bin", "--out", tmp_path / "r", *common]
        assert "not UTF-8 text" in self.assert_exits(argv, code, capsys)

    @pytest.mark.parametrize(
        "stage, flag, what",
        [
            ("prepare", "--raw", "raw check-in file"),
            ("build-sep", "--snapshot", "snapshot"),
            ("train", "--sep", "edge-pair matrix"),
            ("eval", "--checkpoint", "checkpoint"),
        ],
    )
    def test_directory_for_a_file(self, chain, tmp_path, capsys, stage, flag, what):
        """A directory given for the file a flag names exits 2, naming its kind and path."""
        inputs = {"--raw": chain / "raw.tsv", "--snapshot": chain / "snap.txt",
                  "--sep": chain / "pairs.sep", "--checkpoint": chain / "ck.bin"}
        reads = {"prepare": ["--raw"], "build-sep": ["--snapshot"],
                 "train": ["--snapshot", "--sep"], "eval": ["--snapshot", "--sep", "--checkpoint"]}
        argv = [stage, "--out", tmp_path / "out", *SETTINGS]
        for name in reads[stage]:
            argv += [name, tmp_path if name == flag else inputs[name]]
        error = self.assert_exits(argv, 2, capsys)
        assert error == f"error: {what} cannot be read: {tmp_path} (Is a directory)"

    def test_path_through_a_file_cannot_be_read(self, chain, tmp_path, capsys):
        """A path whose parent is a file is not missing either: it cannot be read."""
        bad = chain / "snap.txt" / "snap.txt"
        argv = ["build-sep", "--snapshot", bad, "--out", tmp_path / "pairs.sep", *SETTINGS]
        error = self.assert_exits(argv, 2, capsys)
        assert error == f"error: snapshot cannot be read: {bad} (Not a directory)"

    def test_raw_log_read_from_a_pipe(self, chain, tmp_path):
        """--raw reads a pipe as it reads a file: /dev/stdin gives the same snapshot."""
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["prepare", "--raw", "/dev/stdin", "--out", tmp_path / "snap.txt", *SETTINGS]
        proc = subprocess.run(
            [sys.executable, "-m", "sepgcn.cli", *map(str, argv)], input=(chain / "raw.tsv").read_bytes(),
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (tmp_path / "snap.txt").read_bytes() == (chain / "snap.txt").read_bytes()

    @staticmethod
    def assert_exits(argv, code, capsys):
        """Run a stage; it must end with `code` and one final `error:` line."""
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [err.strip().splitlines()[-1]]
        assert "Traceback" not in err
        return errors[0]


def _stage_argv(chain, stage, out):
    """The arguments of one stage on the shared chain, writing to out."""
    snap, sep = ["--snapshot", chain / "snap.txt"], ["--sep", chain / "pairs.sep"]
    return {
        "synth": ["synth", "--out", out, "--users", "20", "--items", "40", "--checkins", "300"],
        "prepare": ["prepare", "--raw", chain / "raw.tsv", "--out", out, *SETTINGS],
        "build-sep": ["build-sep", *snap, "--out", out, *SETTINGS],
        "train": ["train", *snap, *sep, "--out", out, *SETTINGS],
        "eval": ["eval", *snap, *sep, "--checkpoint", chain / "ck.bin", "--out", out, *SETTINGS],
        "sweep": ["sweep", *snap, "--axis", "layers", "--values", "1", "--out", out, *SETTINGS],
    }[stage]


class TestHostLimits:
    """A path that cannot be read or written exits 2 and a setting too large
    for memory exits 3, each with one error line and no traceback."""

    @pytest.mark.parametrize("stage", ["synth", "prepare", "build-sep", "train", "eval", "sweep"])
    def test_out_in_a_missing_directory_exits_2(self, chain, tmp_path, capsys, stage):
        out = tmp_path / "missing" / "out.tsv"
        error = TestBadInputFiles.assert_exits(_stage_argv(chain, stage, out), 2, capsys)
        assert str(out.parent) in error

    def test_log_in_a_missing_directory_exits_2(self, chain, tmp_path, capsys):
        log = tmp_path / "missing" / "train.log"
        argv = [*_stage_argv(chain, "train", tmp_path / "ck.bin"), "--log", log]
        assert str(log) in TestBadInputFiles.assert_exits(argv, 2, capsys)

    @pytest.mark.parametrize(
        "stage, flag, code",
        [("prepare", "--raw", 2), ("build-sep", "--snapshot", 2), ("eval", "--checkpoint", 2),
         ("prepare", "--config", 3)],
    )
    def test_directory_as_an_input_file(self, chain, tmp_path, capsys, stage, flag, code):
        argv = [*_stage_argv(chain, stage, tmp_path / "out"), flag, tmp_path]
        assert "directory" in TestBadInputFiles.assert_exits(argv, code, capsys)

    # each asks for at least 10**15 elements (neg_per_pos times the 2048 of a
    # batch), more than any 64-bit host can hold; the larger values ask for
    # more bytes than numpy can address at all
    @pytest.mark.parametrize(
        "key, value",
        [("train.batch_size", 10**15), ("model.dim", 10**15), ("train.neg_per_pos", 10**12),
         ("train.neg_per_pos", 10**15), ("model.dim", 10**30), ("train.batch_size", 10**30)],
    )
    def test_setting_too_large_for_memory_exits_3(self, chain, tmp_path, capsys, key, value):
        argv = [*_stage_argv(chain, "train", tmp_path / "ck.bin"), "--set", f"{key}={value}"]
        assert "out of memory" in TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert not (tmp_path / "ck.bin").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--users", 10**30), ("--items", 10**30), ("--checkins", 10**15), ("--checkins", 10**18)],
    )
    def test_synth_count_too_large_for_memory_exits_3(self, chain, tmp_path, capsys, flag, value):
        argv = [*_stage_argv(chain, "synth", tmp_path / "raw.tsv"), flag, value]
        assert "out of memory" in TestBadInputFiles.assert_exits(argv, 3, capsys)
        assert not (tmp_path / "raw.tsv").exists()

    def test_memory_error_without_a_message_still_gives_a_reason(self, chain, tmp_path, capsys, monkeypatch):
        def bare(args):
            raise MemoryError()

        monkeypatch.setattr("sepgcn.cli.cmd_synth", bare)
        error = TestBadInputFiles.assert_exits(_stage_argv(chain, "synth", tmp_path / "raw.tsv"), 3, capsys)
        assert error.startswith("error: out of memory: ")
        assert error.removeprefix("error: out of memory: ").strip()

    # each writer, the file it writes, its name in the error, and a file-size
    # limit under that file's size but above the stage's earlier outputs
    @pytest.mark.parametrize(
        "stage, name, what, limit",
        [
            ("synth", "raw.tsv", "raw check-in file", 64),
            ("prepare", "snap.txt", "snapshot", 64),
            ("build-sep", "pairs.sep", "edge-pair matrix", 64),
            ("train", "train.log", "training log", 64),
            ("train", "ck.bin", "checkpoint", 1024),
            ("eval", "rep.tsv", "report", 64),
            ("eval", "rep.kv", "report", 256),
            ("sweep", "sw.sweep.tsv", "sweep table", 64),
        ],
    )
    @pytest.mark.parametrize("earlier", [False, True], ids=["absent", "earlier"])
    def test_a_write_cut_short_leaves_no_part_of_it(self, chain, tmp_path, stage, name, what, limit, earlier):
        """Under a file-size limit the write fails: the stage exits 2 with one
        line naming the file, and leaves no file there or the earlier one."""
        path = tmp_path / name
        if earlier:
            path.write_bytes(b"earlier\n")
        out = {"train": tmp_path / "ck.bin", "eval": tmp_path / "rep", "sweep": tmp_path / "sw"}
        argv = [str(a) for a in _stage_argv(chain, stage, out.get(stage, path))]
        if stage == "train":
            argv += ["--log", str(tmp_path / "train.log")]
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from sepgcn.cli import main\n"
            f"sys.exit(main({argv!r}))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {what} cannot be written: {path} (File too large)"]
        assert path.read_bytes() == b"earlier\n" if earlier else not path.exists()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_a_path_that_is_no_regular_file_is_written_in_place(self, chain, tmp_path):
        """synth --out /dev/stdout writes the log to the pipe, as to a file."""
        argv = [str(a) for a in _stage_argv(chain, "synth", "/dev/stdout")]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sepgcn.cli", *argv], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main([str(a) for a in _stage_argv(chain, "synth", tmp_path / "raw.tsv")]) == 0
        log = (tmp_path / "raw.tsv").read_bytes()
        assert proc.stdout.startswith(log) and proc.stdout[len(log):].startswith(b"wrote 300 check-ins")

    def test_a_link_keeps_pointing_at_the_file_it_names(self, chain, tmp_path):
        (tmp_path / "raw.tsv").write_text("earlier\n")
        (tmp_path / "link.tsv").symlink_to("raw.tsv")
        assert main([str(a) for a in _stage_argv(chain, "synth", tmp_path / "link.tsv")]) == 0
        assert (tmp_path / "link.tsv").is_symlink()
        assert (tmp_path / "raw.tsv").read_text().startswith("u00")

    # the child caps its own address space at 1 GB, so a cutoff that sizes an
    # array or a list by k ends there instead of filling the host
    @pytest.mark.parametrize("ks", ["5,20,100000000", f"5,{10**30}"])
    def test_cutoff_past_the_item_count_in_bounded_memory(self, chain, tmp_path, ks):
        argv = [str(a) for a in _stage_argv(chain, "eval", tmp_path / "rep")] + ["--set", f"ks={ks}"]
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from sepgcn.cli import main\n"
            f"sys.exit(main({argv!r}))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "error:" not in proc.stderr and "Traceback" not in proc.stderr
        # every test item is a candidate, so a cutoff past the item count finds them all
        line = next(line for line in proc.stdout.splitlines() if line.startswith(f"k={ks.split(',')[-1]}\t"))
        assert "\trecall=1.0\t" in line and line.endswith("\taccuracy=1.0")
